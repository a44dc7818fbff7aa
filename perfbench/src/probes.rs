//! Layer probes: each layer's public functions timed in isolation, so the
//! traced run can charge a layer `ns per call × calls the run made`.
//!
//! Each probe times `BATCHES` batches and keeps the median batch, which
//! drops batches another process interrupted.

use bytes::Bytes;
use clonos::inflight::SentBuffer;
use clonos::{CausalLogManager, CausalServices, Determinant, InFlightLog, SpillPolicy};
use clonos_engine::state::StateStore;
use clonos_engine::{Datum, Record, Row};
use clonos_sim::{SimRng, Simulation, VirtualDuration, VirtualTime};
use clonos_storage::codec::{ByteReader, ByteWriter};
use clonos_storage::spill::SpillDevice;
use std::hint::black_box;
use std::time::Instant;

const BATCHES: usize = 7;

/// Median over batches of `f`'s ns per op; `f` runs one batch and returns
/// how many ops it made.
fn time_per_op(mut f: impl FnMut() -> u64) -> f64 {
    let mut per: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            let ops = f();
            t.elapsed().as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    per.sort_by(f64::total_cmp);
    per[BATCHES / 2]
}

/// Record encode and decode (the codec the routing path and the receivers
/// run), ns per record, over rows sampled from the workload input.
pub fn record_codec(sample: &[Row]) -> (f64, f64) {
    let recs: Vec<Record> = sample
        .iter()
        .enumerate()
        .map(|(i, r)| Record {
            key: i as u64 * 0x9E37_79B9,
            event_time: 1_000_000 + i as u64,
            create_ts: 2_000_000 + i as u64,
            ident: (7 << 40) | i as u64,
            row: r.clone(),
        })
        .collect();
    let encode_all = || {
        let mut w = ByteWriter::new();
        for r in &recs {
            r.encode(&mut w);
        }
        w.freeze()
    };
    let encoded = encode_all();
    let encode = time_per_op(|| {
        black_box(encode_all());
        recs.len() as u64
    });
    let decode = time_per_op(|| {
        let mut r = ByteReader::new(&encoded);
        let mut n = 0;
        while !r.is_empty() {
            black_box(Record::decode(&mut r).expect("probe bytes decode"));
            n += 1;
        }
        n
    });
    (encode, decode)
}

/// Causal log: ns per `record`, per `collect_delta` and per `ingest_delta`,
/// with `dets_per_buffer` determinants between consecutive deltas.
pub struct CausalNs {
    pub record: f64,
    pub collect_delta: f64,
    pub ingest_delta: f64,
}

pub fn causal(dets_per_buffer: u64, buffers: u64) -> CausalNs {
    let dets = dets_per_buffer.max(1);
    let mut up = CausalLogManager::new(1, 1, 2);
    let mut down = CausalLogManager::new(2, 1, 2);
    let mut epoch = 0;
    let (mut rec_ns, mut col_ns, mut ing_ns) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..BATCHES {
        let (mut r, mut c, mut g) = (0u128, 0u128, 0u128);
        for b in 0..buffers {
            let t = Instant::now();
            for i in 0..dets {
                let det = if i % 4 == 0 {
                    Determinant::Timestamp {
                        ts: b * 1_000 + i,
                        offset: i,
                    }
                } else {
                    Determinant::Order {
                        channel: (i % 2) as u32,
                    }
                };
                up.record(det);
            }
            let t1 = Instant::now();
            let delta = up.collect_delta(0);
            let t2 = Instant::now();
            black_box(down.ingest_delta(&delta).expect("probe delta ingests"));
            let t3 = Instant::now();
            r += (t1 - t).as_nanos();
            c += (t2 - t1).as_nanos();
            g += (t3 - t2).as_nanos();
            // A checkpoint every 64 buffers keeps the logs bounded, as
            // truncation does in a run.
            if b % 64 == 63 {
                epoch += 1;
                for m in [&mut up, &mut down] {
                    m.set_epoch(epoch);
                    m.truncate_through(epoch - 1);
                }
            }
        }
        rec_ns.push(r as f64 / (buffers * dets) as f64);
        col_ns.push(c as f64 / buffers as f64);
        ing_ns.push(g as f64 / buffers as f64);
    }
    let med = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    CausalNs {
        record: med(rec_ns),
        collect_delta: med(col_ns),
        ingest_delta: med(ing_ns),
    }
}

/// In-flight log: ns per `append` of a buffer of the run's mean size.
pub fn inflight_append(payload_bytes: usize, delta_bytes: usize, buffers: u64) -> f64 {
    let payload = Bytes::from(vec![0xA5u8; payload_bytes.max(1)]);
    let delta = Bytes::from(vec![0x5Au8; delta_bytes]);
    let mut log = InFlightLog::new(1, SpillPolicy::InMemory, 1 << 20);
    let mut spill = SpillDevice::new();
    let mut epoch = 0;
    time_per_op(|| {
        for b in 0..buffers {
            black_box(log.append(
                0,
                SentBuffer {
                    epoch,
                    payload: payload.clone(),
                    delta: delta.clone(),
                    records: 8,
                },
                &mut spill,
            ));
            if b % 64 == 63 {
                epoch += 1;
                log.truncate_through(epoch - 1, &mut spill);
            }
        }
        buffers
    })
}

/// Keyed state: ns per `value` or `set_value` call over `keys` keys drawn
/// uniformly, under the workload's per-task budget (0 = untiered).
pub fn state_ops(keys: u64, budget: u64, ops: u64) -> f64 {
    let keys = keys.max(1);
    let mut store = StateStore::new();
    if budget > 0 {
        store.enable_tiering(budget, 1 << 40);
    }
    let row = |k: u64| Row::new(vec![Datum::Int(k as i64), Datum::Int(1)]);
    for k in 0..keys {
        store.set_value(0, k, row(k));
        if k % 4_096 == 4_095 {
            store.tier_sync_dirty();
        }
    }
    store.tier_sync_dirty();
    let mut rng = SimRng::new(17);
    let pairs = (ops / 2).max(1);
    time_per_op(|| {
        for _ in 0..pairs {
            let k = rng.gen_range(keys);
            let c = store.value(0, k).map(|r| r.int(1)).unwrap_or(0);
            store.set_value(
                0,
                k,
                Row::new(vec![Datum::Int(k as i64), Datum::Int(c + 1)]),
            );
        }
        store.tier_sync_dirty();
        black_box(store.take_tier_io());
        pairs * 2
    })
}

/// Timestamp service: ns per `CausalServices::timestamp` call, with calls
/// `gap_us` of virtual time apart (so the 1 ms cache hits as in the run).
pub fn timestamp_calls(gap_us: u64, calls: u64) -> f64 {
    let mut svc = CausalServices::new(1_000);
    let mut log = CausalLogManager::new(1, 1, 2);
    let mut now = 0u64;
    let mut step = 0u64;
    time_per_op(|| {
        for _ in 0..calls {
            now += gap_us.max(1);
            step += 1;
            black_box(
                svc.timestamp(&mut log, VirtualTime(now), step)
                    .expect("recording"),
            );
        }
        log.set_epoch(log.epoch() + 1);
        log.truncate_through(log.epoch() - 1);
        calls
    })
}

/// Sim scheduler: ns per event (one `pop` plus one `schedule_in`) with
/// `pending` events queued, the run's mean queue depth.
pub fn sim_events(pending: usize, events: u64) -> f64 {
    let mut sim: Simulation<u64> = Simulation::new();
    let mut rng = SimRng::new(23);
    for i in 0..pending.max(1) {
        sim.schedule_in(
            VirtualDuration::from_micros(rng.gen_range(1_000)),
            i as u64,
            i as u64,
        );
    }
    time_per_op(|| {
        for _ in 0..events {
            let d = sim.pop().expect("queue stays at its depth");
            sim.schedule_in(
                VirtualDuration::from_micros(1 + rng.gen_range(1_000)),
                d.dest,
                d.msg,
            );
        }
        events
    })
}
