//! The job manager's protocol state and its checkpoint coordinator, shared
//! by both schedulers.
//!
//! One [`JobManager`] value lives in the [`Cluster`](crate::cluster::Cluster).
//! Under the sim scheduler `Cluster::jm_handle` drives it; the threaded
//! runtime lends it (with the snapshot store) to coordinator cell 0 for the
//! run and hands it back at teardown. Either way the checkpoint protocol is
//! this one implementation: periodic barrier injection, ack collection,
//! completion broadcast, snapshot GC and standby state dispatch (§6.4),
//! with the barrier chain's causal events recorded at the trigger and at
//! completion. The recovery handlers stay on `Cluster`, which owns the task
//! lifecycle they need, and work on this state's fields.

use crate::cluster::JM;
use crate::config::EngineConfig;
use crate::graph::ExecutionGraph;
use crate::messages::{Msg, SegmentAck};
use crate::metrics::{CausalRef, JobMetrics};
use bytes::Bytes;
use clonos::causal_log::TaskLogSnapshot;
use clonos::standby::StandbyManager;
use clonos::{ChannelId, TaskId};
use clonos_sim::{Scheduler, VirtualDuration};
use clonos_storage::snapshot::{SnapshotBlob, SnapshotStore, TransferModel};
use std::collections::{BTreeMap, BTreeSet};

/// Gathering state for one recovering task's determinant logs.
#[derive(Debug, Default)]
pub(crate) struct LogGather {
    /// Unique id: stale `LogResponse`s from a superseded gather (e.g. the
    /// previous recovery attempt of a re-failed task) are discarded by it.
    pub(crate) id: u64,
    pub(crate) expected: BTreeSet<TaskId>,
    pub(crate) snapshot: TaskLogSnapshot,
    /// (reporter, reporter's input channel) → received-buffer count.
    pub(crate) counts: BTreeMap<(TaskId, ChannelId), u64>,
    pub(crate) resume_cp: u64,
    pub(crate) state: Bytes,
    /// Retry rounds already spent on this gather.
    pub(crate) attempts: u32,
}

/// Everything a job-manager handler may touch outside its own state: the
/// scheduler driving it and the storage/metrics it writes.
pub(crate) struct JmCtx<'a> {
    pub(crate) sched: &'a mut dyn Scheduler<Msg>,
    pub(crate) snapshots: &'a mut SnapshotStore,
    pub(crate) metrics: &'a mut JobMetrics,
    pub(crate) config: &'a EngineConfig,
}

/// Job-manager state: the checkpoint coordinator's counters and pending
/// acks, plus the recovery bookkeeping the `Cluster` handlers keep.
#[derive(Debug, Default)]
pub(crate) struct JobManager {
    pub(crate) next_cp: u64,
    pub(crate) last_completed: u64,
    /// cp id → acked task set.
    pub(crate) pending: BTreeMap<u64, BTreeSet<TaskId>>,
    /// Tasks currently dead or mid-recovery (for the Figure-4 analysis).
    pub(crate) failed: BTreeSet<TaskId>,
    /// Tasks whose determinant replay has not finished yet.
    pub(crate) recovering: BTreeSet<TaskId>,
    pub(crate) gathers: BTreeMap<TaskId, LogGather>,
    pub(crate) gather_seq: u64,
    pub(crate) rollback_scheduled: bool,
    pub(crate) standby: StandbyManager,
    /// Task ids with no inputs (checkpoint barrier injection points).
    sources: Vec<TaskId>,
    /// All task ids, in graph order.
    pub(crate) tasks: Vec<TaskId>,
}

impl JobManager {
    pub(crate) fn new(graph: &ExecutionGraph) -> JobManager {
        JobManager {
            sources: graph.tasks.iter().filter(|t| t.inputs.is_empty()).map(|t| t.id).collect(),
            tasks: graph.tasks.iter().map(|t| t.id).collect(),
            ..JobManager::default()
        }
    }

    pub(crate) fn checkpoint_tick(&mut self, ctx: &mut JmCtx<'_>) {
        ctx.sched.schedule_in(ctx.config.checkpoint_interval, JM, Msg::CheckpointTick);
        // Pause triggering while anything is failed or recovering.
        if !self.failed.is_empty() || !self.recovering.is_empty() || self.rollback_scheduled {
            return;
        }
        self.next_cp += 1;
        let id = self.next_cp;
        let now = ctx.sched.now();
        ctx.metrics.event(now, format!("checkpoint {id} triggered"));
        // Barrier-chain entry: everything checkpoint `id` does is caused by
        // this trigger.
        ctx.metrics.causal_event(now, "TriggerCheckpoint", id, JM, None);
        self.pending.insert(id, BTreeSet::new());
        for &s in &self.sources {
            ctx.sched.schedule_in(
                VirtualDuration::from_micros(100),
                s,
                Msg::TriggerCheckpoint { id },
            );
        }
    }

    pub(crate) fn ack(
        &mut self,
        ctx: &mut JmCtx<'_>,
        task: TaskId,
        id: u64,
        snapshot: Bytes,
        delta_parent: Option<u64>,
        segments: Option<Box<SegmentAck>>,
    ) {
        let now = ctx.sched.now();
        // Tiered backend: register the checkpoint's segment view first, so
        // a full-image read of this checkpoint can already fold it.
        if let Some(seg) = segments {
            ctx.snapshots.put_segments(id, task, seg.live, seg.sealed);
        }
        match delta_parent {
            Some(parent) => {
                ctx.snapshots.put_delta(now, id, task, parent, snapshot);
            }
            None => {
                ctx.snapshots.put(now, id, task, snapshot);
            }
        }
        let Some(acked) = self.pending.get_mut(&id) else { return };
        acked.insert(task);
        if acked.len() < self.tasks.len() {
            return;
        }
        // Checkpoint complete.
        self.pending.remove(&id);
        if id <= self.last_completed {
            return;
        }
        self.last_completed = id;
        ctx.metrics.event(now, format!("checkpoint {id} complete"));
        ctx.metrics.causal_event(
            now,
            "CheckpointComplete",
            id,
            JM,
            Some(CausalRef { kind: "CheckpointAck", epoch: id, task }),
        );
        for &t in &self.tasks {
            ctx.sched.schedule_in(
                VirtualDuration::from_micros(100),
                t,
                Msg::CheckpointComplete { id },
            );
        }
        ctx.snapshots.truncate_before(id);
        // Dispatch state to standbys (§6.4): ship only the delta when the
        // standby already holds the parent image, so the dispatch-time-vs-
        // checkpoint-interval bound is measured on what actually changed;
        // otherwise reconstruct and ship the full image.
        let extra = ctx.config.synthetic_state_bytes;
        for &t in &self.tasks {
            if !self.standby.has_standby(t) {
                continue;
            }
            // Tiered checkpoints: the delta blob covers only resident
            // sections — value state lives in segments, so a delta-only
            // ship would under-deliver. Fall back to the full fold.
            let delta = if ctx.snapshots.has_segments(id, t) {
                None
            } else {
                match ctx.snapshots.blob(id, t) {
                    Some(SnapshotBlob::Delta { parent, bytes }) => Some((*parent, bytes.clone())),
                    _ => None,
                }
            };
            let shipped = delta.and_then(|(parent, bytes)| {
                let transfer = TransferModel::default().transfer_time(bytes.len() as u64);
                self.standby.dispatch_delta(t, id, parent, bytes, now, transfer)
            });
            if shipped.is_none() {
                if let Some((bytes, _)) = ctx.snapshots.get(now, id, t) {
                    let transfer =
                        TransferModel::default().transfer_time(bytes.len() as u64 + extra);
                    self.standby.dispatch_state(t, id, bytes, now, transfer);
                }
            }
        }
    }
}
