//! **Delta-collection cost: encoded arena vs per-entry re-encoding.**
//!
//! Measures the piggyback-delta hot path (`collect_delta`) on the tail task
//! of a three-hop chain at output fanout 1/4/16 and DSD 1–3, against a
//! baseline that re-encodes every determinant through the codec at collect
//! time — the implementation this repo used before the encoded arena. Both
//! paths produce the same wire bytes (the equivalence property test in
//! `crates/core/tests/properties.rs` proves byte identity); this binary
//! quantifies the per-entry cost difference and writes `BENCH_delta.json`.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_delta`
//! (`BENCH_SMOKE=1` writes `target/bench-smoke/BENCH_delta.json` instead.)

// Host-time measurement is this binary's purpose (clippy.toml wall-clock
// disallow list exempts measurement code explicitly).
#![allow(clippy::disallowed_methods)]

use clonos::causal_log::CausalLogManager;
use clonos::determinant::Determinant;
use clonos_bench::{Ledger, LedgerRow, Value};
use clonos_storage::codec::ByteWriter;
use std::time::Instant;

/// Entries recorded per task before each collection round.
const ENTRIES: usize = 512;
/// Measured rounds per configuration (plus 2 warmup rounds).
const ROUNDS: usize = 30;
/// Wire tag for a compressed `Order` run (frozen wire format).
const ORDER_RUN_TAG: u8 = 0x3F;

/// A steady-load determinant mix: dominated by `Order` runs (run-length
/// compressed on the wire by both paths) with periodic timestamps, timers,
/// and externals (arena: bulk memcpy; baseline: full re-encode).
fn batch(n: usize) -> Vec<Determinant> {
    (0..n as u64)
        .map(|i| match i % 16 {
            0..=9 => Determinant::Order { channel: (i % 3) as u32 },
            10..=11 => Determinant::Order { channel: 7 },
            12 => Determinant::Timestamp { ts: 1_616_000_000 + i, offset: i },
            13 => Determinant::Timer { timer_id: i, offset: i * 3 },
            14 => Determinant::RngSeed { seed: i.wrapping_mul(0x9E37) },
            _ => Determinant::External { payload: vec![i as u8; 8] },
        })
        .collect()
}

/// Build the chain a → b → c and return `c` with `fanout` output channels:
/// own log populated, upstream replicas installed for DSD > 1.
fn populated_tail(fanout: usize, dsd: u32, dets: &[Determinant]) -> CausalLogManager {
    let mut a = CausalLogManager::new(1, 1, dsd);
    for d in dets {
        a.record(d.clone());
    }
    let da = a.collect_delta(0);
    let mut b = CausalLogManager::new(2, 1, dsd);
    b.ingest_delta(&da).unwrap();
    for d in dets {
        b.record(d.clone());
    }
    let db = b.collect_delta(0);
    let mut c = CausalLogManager::new(3, fanout, dsd);
    c.ingest_delta(&db).unwrap();
    for d in dets {
        c.record(d.clone());
    }
    c
}

/// The pre-arena encoder: walk decoded `(epoch, det)` entries and re-encode
/// each determinant through the codec, with the same `Order`-run
/// compression. One call = one origin's main log in one channel's delta.
fn legacy_encode_log(w: &mut ByteWriter, origin: u64, id: u32, entries: &[(u64, Determinant)]) {
    w.put_varint(origin);
    w.put_varint(0); // hops
    w.put_varint(2); // main + one (empty) channel log
    w.put_varint(id as u64);
    w.put_varint(0); // from
    w.put_varint(entries.len() as u64);
    let mut i = 0;
    while i < entries.len() {
        let (epoch, det) = &entries[i];
        if let Determinant::Order { channel } = det {
            let mut run = 1;
            while i + run < entries.len() {
                let (e2, d2) = &entries[i + run];
                let same = e2 == epoch
                    && matches!(d2, Determinant::Order { channel: c2 } if c2 == channel);
                if !same {
                    break;
                }
                run += 1;
            }
            if run >= 3 {
                w.put_varint(*epoch);
                w.put_u8(ORDER_RUN_TAG);
                w.put_varint(*channel as u64);
                w.put_varint(run as u64);
                i += run;
                continue;
            }
        }
        w.put_varint(*epoch);
        det.encode(w);
        i += 1;
    }
    // Empty channel log framing.
    w.put_varint(1);
    w.put_varint(0);
    w.put_varint(0);
}

fn measure(fanout: usize, dsd: u32, dets: &[Determinant]) -> LedgerRow {
    let origins = dsd.min(3) as usize;
    let entries_per_round = (fanout * origins * ENTRIES) as u64;
    let decoded: Vec<(u64, Determinant)> = dets.iter().map(|d| (0u64, d.clone())).collect();

    // Arena path: time only the collect calls; chain setup is untimed.
    // Per-round minimum ns/entry: the least-noise estimate of the true cost.
    let mut arena_ns = f64::INFINITY;
    for round in 0..ROUNDS + 2 {
        let mut tail = populated_tail(fanout, dsd, dets);
        let before = tail.stats.delta_entries_shipped;
        let t0 = Instant::now();
        let mut bytes = 0usize;
        for ch in 0..fanout {
            bytes += tail.collect_delta(ch as u32).len();
        }
        let dt = t0.elapsed().as_nanos();
        std::hint::black_box(bytes);
        let shipped = tail.stats.delta_entries_shipped - before;
        if round >= 2 {
            arena_ns = arena_ns.min(dt as f64 / shipped.max(1) as f64);
        }
    }

    // Legacy path: identical logical content, re-encoded per channel.
    let mut legacy_ns = f64::INFINITY;
    for round in 0..ROUNDS + 2 {
        let t0 = Instant::now();
        let mut bytes = 0usize;
        for _ch in 0..fanout {
            let mut w = ByteWriter::new();
            w.put_varint(origins as u64);
            for origin in 0..origins as u64 {
                legacy_encode_log(&mut w, origin + 1, 0, &decoded);
            }
            bytes += w.freeze().len();
        }
        let dt = t0.elapsed().as_nanos();
        std::hint::black_box(bytes);
        if round >= 2 {
            legacy_ns = legacy_ns.min(dt as f64 / entries_per_round as f64);
        }
    }

    LedgerRow::new()
        .int("fanout", "fanout", fanout as u64)
        .int("dsd", "DSD", dsd as u64)
        .num("arena_ns_per_entry", "arena ns", arena_ns, 3)
        .num("reencode_ns_per_entry", "re-encode ns", legacy_ns, 3)
        .num("speedup", "speedup", legacy_ns / arena_ns, 3)
}

fn main() {
    let dets = batch(ENTRIES);
    let mut rows = Vec::new();
    for dsd in [1u32, 2, 3] {
        for fanout in [1usize, 4, 16] {
            rows.push(measure(fanout, dsd, &dets));
        }
    }
    let min_speedup_fanout_ge4 = rows
        .iter()
        .filter(|r| r.get("fanout") >= 4.0)
        .map(|r| r.get("speedup"))
        .fold(f64::INFINITY, f64::min);
    Ledger::new(
        "delta",
        "delta_fanout",
        "Delta collection: encoded arena vs per-entry re-encoding (ns/entry)",
        rows,
    )
    .field("entries_per_log", Value::Int(ENTRIES as u64))
    .field("rounds", Value::Int(ROUNDS as u64))
    .field("min_speedup_fanout_ge4", Value::Num(min_speedup_fanout_ge4, 3))
    .line(format!(
        "minimum speedup at fanout >= 4: {min_speedup_fanout_ge4:.2}x (acceptance floor: 2.00x)"
    ))
    .finish();
}
