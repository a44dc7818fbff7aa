//! Per-actor state for the multi-threaded runtime: a task (or the
//! coordinator) plus everything it needs to run without touching shared
//! mutable state — its own Lamport clock, timer heap, per-pair links,
//! metrics shard, and (for sources/sinks) private topic partitions. All
//! cross-actor communication goes through mailboxes; the worlds here are
//! only ever mutated under their cell's state lock.

use crate::config::EngineConfig;
use crate::jm::{JmCtx, JobManager};
use crate::messages::Msg;
use crate::metrics::JobMetrics;
use crate::task::{Task, TaskCtx};
use clonos::TaskId;
use clonos_sim::{ActorId, Link, Scheduler, SimRng, VirtualDuration, VirtualTime};
use clonos_storage::external::ExternalKv;
use clonos_storage::log::DurableLog;
use clonos_storage::snapshot::SnapshotStore;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::Mutex;

use super::mailbox::Mailbox;

/// A message an actor scheduled for itself (self-addressed `schedule_at`).
/// Ordered as a min-heap on `(at, seq)` — `seq` keeps same-time timers in
/// scheduling order, matching the sim queue's FIFO tie-break.
#[derive(Debug)]
pub(crate) struct TimerEntry {
    pub(crate) at: VirtualTime,
    pub(crate) seq: u64,
    pub(crate) msg: Msg,
}

impl PartialEq for TimerEntry {
    fn eq(&self, other: &TimerEntry) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for TimerEntry {}
impl PartialOrd for TimerEntry {
    fn partial_cmp(&self, other: &TimerEntry) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimerEntry {
    fn cmp(&self, other: &TimerEntry) -> std::cmp::Ordering {
        // Inverted: BinaryHeap is a max-heap, we want the earliest first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// The `Scheduler` the runtime hands to task handlers: `now` is the actor's
/// Lamport clock; self-addressed messages go to the local timer heap, and
/// everything else is staged in the outbox for the worker to flush through
/// the destination mailbox (with backpressure) after the handler returns.
pub(crate) struct ActorSched<'a> {
    pub(crate) me: ActorId,
    pub(crate) clock: VirtualTime,
    pub(crate) timers: &'a mut BinaryHeap<TimerEntry>,
    pub(crate) seq: &'a mut u64,
    pub(crate) outbox: &'a mut VecDeque<(VirtualTime, ActorId, Msg)>,
}

impl Scheduler<Msg> for ActorSched<'_> {
    fn now(&self) -> VirtualTime {
        self.clock
    }

    fn schedule_at(&mut self, at: VirtualTime, dest: ActorId, msg: Msg) {
        let at = at.max(self.clock);
        if dest == self.me {
            let seq = *self.seq;
            *self.seq += 1;
            self.timers.push(TimerEntry { at, seq, msg });
        } else {
            self.outbox.push_back((at, dest, msg));
        }
    }
}

/// One task plus its private copies of everything `TaskCtx` borrows.
pub(crate) struct TaskWorld {
    pub(crate) task: Task,
    pub(crate) links: BTreeMap<(TaskId, TaskId), Link>,
    pub(crate) external: ExternalKv,
    pub(crate) topics: BTreeMap<String, DurableLog>,
    pub(crate) entropy: SimRng,
    /// `(topic, partition, base_offset)` — records this actor appends to its
    /// private sink partition at offsets `>= base_offset` are merged back
    /// into the cluster's shared topic at teardown.
    pub(crate) sink_merge: Option<(String, usize, u64)>,
}

/// The coordinator: the cluster's own job manager and snapshot store, lent
/// to cell 0 for the run and handed back at teardown.
pub(crate) struct Coordinator {
    pub(crate) jm: JobManager,
    pub(crate) snapshots: SnapshotStore,
}

pub(crate) enum CellKind {
    /// Boxed: the variants differ widely in size, and unboxed every
    /// `CellState` would be as large as the largest.
    Task(Box<TaskWorld>),
    Coord(Box<Coordinator>),
}

/// Mutable half of a cell, guarded by one lock so a cell is only ever
/// processed by one worker at a time.
pub(crate) struct CellState {
    pub(crate) kind: CellKind,
    /// The cell's Lamport clock: `max(clock, delivery.at)` on receive.
    pub(crate) clock: VirtualTime,
    pub(crate) timers: BinaryHeap<TimerEntry>,
    /// Next timer sequence number (FIFO tie-break among same-time timers).
    pub(crate) seq: u64,
    /// Messages a handler addressed to other actors, not yet flushed to
    /// their mailboxes (flushing can block on backpressure, so it happens
    /// after the handler returns, still under this cell's lock).
    pub(crate) outbox: VecDeque<(VirtualTime, ActorId, Msg)>,
    /// This cell's metrics shard, absorbed into the cluster's at teardown.
    pub(crate) metrics: JobMetrics,
    pub(crate) errors: Vec<String>,
}

impl CellState {
    /// Deliver one message at `at` to the cell's task or coordinator. Does
    /// NOT flush the outbox — callers flush (or deliberately defer while a
    /// send is stalled).
    pub(crate) fn deliver(
        &mut self,
        config: &EngineConfig,
        at: VirtualTime,
        msg: Msg,
        me: ActorId,
    ) {
        self.clock = self.clock.max(at);
        let mut sched = ActorSched {
            me,
            clock: self.clock,
            timers: &mut self.timers,
            seq: &mut self.seq,
            outbox: &mut self.outbox,
        };
        match &mut self.kind {
            CellKind::Task(w) => {
                let mut ctx = TaskCtx {
                    sched: &mut sched,
                    links: &mut w.links,
                    external: &mut w.external,
                    topics: &mut w.topics,
                    config,
                    entropy: &mut w.entropy,
                    metrics: &mut self.metrics,
                };
                if let Err(e) = w.task.handle(msg, &mut ctx) {
                    self.errors.push(format!("task {me}: {e}"));
                }
            }
            CellKind::Coord(c) => {
                let mut ctx = JmCtx {
                    sched: &mut sched,
                    snapshots: &mut c.snapshots,
                    metrics: &mut self.metrics,
                    config,
                };
                match msg {
                    Msg::CheckpointTick => c.jm.checkpoint_tick(&mut ctx),
                    Msg::CheckpointAck { task, id, snapshot, delta_parent, segments } => {
                        c.jm.ack(&mut ctx, task, id, snapshot, delta_parent, segments)
                    }
                    other => self.errors.push(format!(
                        "coordinator received unsupported {other:?} in parallel runtime"
                    )),
                }
            }
        }
    }
}

/// One actor slot: mailbox (any thread) + locked state (one thread at a time).
pub(crate) struct ActorCell {
    /// The actor's id in the message plane (JM = 0, tasks as in the graph).
    pub(crate) id: ActorId,
    pub(crate) mailbox: Mailbox,
    pub(crate) state: Mutex<CellState>,
    /// True when the cell had nothing runnable at the end of its last sweep;
    /// cleared by producers when they push into the mailbox.
    pub(crate) parked: AtomicBool,
    /// The cell's published Lamport clock in µs — the coordinator's timer
    /// gate reads the minimum over task cells to pace checkpoint ticks.
    pub(crate) clock_us: AtomicU64,
}

impl ActorCell {
    pub(crate) fn new(id: ActorId, kind: CellKind, capacity: usize) -> ActorCell {
        ActorCell {
            id,
            mailbox: Mailbox::new(capacity),
            state: Mutex::new(CellState {
                kind,
                clock: VirtualTime::ZERO,
                timers: BinaryHeap::new(),
                seq: 0,
                outbox: VecDeque::new(),
                // Window must match the cluster accumulator's for `absorb`.
                metrics: JobMetrics::new(VirtualDuration::from_secs(1)),
                errors: Vec::new(),
            }),
            parked: AtomicBool::new(false),
            clock_us: AtomicU64::new(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_heap_is_a_min_heap_with_fifo_ties() {
        let mut h = BinaryHeap::new();
        h.push(TimerEntry { at: VirtualTime(30), seq: 0, msg: Msg::FlushTick });
        h.push(TimerEntry { at: VirtualTime(10), seq: 1, msg: Msg::FlushTick });
        h.push(TimerEntry { at: VirtualTime(10), seq: 2, msg: Msg::WatermarkTick });
        let order: Vec<(u64, u64)> =
            std::iter::from_fn(|| h.pop()).map(|t| (t.at.as_micros(), t.seq)).collect();
        assert_eq!(order, [(10, 1), (10, 2), (30, 0)]);
    }

    #[test]
    fn sched_routes_self_to_timers_and_remote_to_outbox() {
        let mut timers = BinaryHeap::new();
        let mut seq = 0u64;
        let mut outbox = VecDeque::new();
        let mut s = ActorSched {
            me: 3,
            clock: VirtualTime(100),
            timers: &mut timers,
            seq: &mut seq,
            outbox: &mut outbox,
        };
        s.schedule_at(VirtualTime(50), 3, Msg::FlushTick); // past: clamps to now
        s.schedule_at(VirtualTime(200), 7, Msg::FlushTick);
        assert_eq!(timers.peek().unwrap().at, VirtualTime(100));
        assert_eq!(outbox.len(), 1);
        assert_eq!(outbox[0].0, VirtualTime(200));
        assert_eq!(outbox[0].1, 7);
    }
}
