//! **Tiered state backend: O(dirty) checkpoints with keyed state ≫ RAM.**
//!
//! Populates a tiered `StateStore` at 10^5 and 10^7 keys under a resident
//! budget of ~10% of total state, then runs steady-state barriers that each
//! dirty a fixed absolute number of keys. Per barrier it measures what the
//! checkpoint actually ships — sealed segment payloads, the resident delta
//! image, and the live-id listing — and asserts the O(dirty) property: the
//! mean shipped bytes per barrier at 10^7 keys must stay within 2x of the
//! 10^5-key cost (same dirty set size, 100x the total state). A final
//! `SnapshotStore` round-trip re-folds the shipped segments and verifies
//! the reconstruction digest against the live store. Writes
//! `BENCH_state.json`.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_state`
//! (`BENCH_SMOKE=1` shrinks scales to {10^4, 10^5} for CI smoke runs and writes
//! `target/bench-smoke/BENCH_state.json` instead.)

// Host-time measurement is this binary's purpose (clippy.toml wall-clock
// disallow list exempts measurement code explicitly).
#![allow(clippy::disallowed_methods)]

use clonos_bench::{smoke, Ledger, LedgerRow, Value};
use clonos_engine::state::StateStore;
use clonos_engine::{Datum, Row as DataRow};
use clonos_sim::VirtualTime;
use clonos_storage::{ByteWriter, SnapshotStore};
use std::time::Instant;

/// Rough per-entry resident weight of the two-int rows below; only used to
/// size the budget at ~10% of total state.
const APPROX_ENTRY_BYTES: u64 = 46;

fn row_for(key: u64, epoch: u64) -> DataRow {
    DataRow::new(vec![
        Datum::Int((key.wrapping_mul(0x9E3779B97F4A7C15) ^ epoch) as i64),
        Datum::Int((key + epoch) as i64),
    ])
}

fn measure(keys: u64, dirty_per_barrier: u64, barriers: u64) -> LedgerRow {
    let budget = (keys * APPROX_ENTRY_BYTES / 10).max(1024);
    let mut store = StateStore::new();
    store.enable_tiering(budget, 1 << 40);
    let mut snapshots = SnapshotStore::new();

    // Load in chunks, syncing per chunk so the resident cache (not an
    // untiered map) is the only RAM the populate phase ever holds.
    let t0 = Instant::now();
    let chunk = 100_000u64;
    let mut k = 0u64;
    while k < keys {
        let end = (k + chunk).min(keys);
        for key in k..end {
            store.set_value(0, key, row_for(key, 0));
        }
        store.tier_sync_dirty();
        k = end;
    }
    let load_s = t0.elapsed().as_secs_f64();

    // Barrier 0 is the full base: it ships the entire populated corpus (all
    // segments sealed during the load) plus the resident full image, exactly
    // like a task's first ack. Not part of the steady-state mean.
    let sealed = store.take_sealed_segments();
    let live = store.live_segments();
    let mut w = ByteWriter::new();
    w.put_varint(store.resident_full_entry_count());
    store.write_resident_full_entries(&mut w);
    store.clear_dirty();
    snapshots.put_segments(0, 0, live, sealed);
    snapshots.put(VirtualTime(0), 0, 0, w.freeze());

    // Steady state: each barrier dirties a fixed absolute number of keys
    // spread across the whole key space, then cuts segments the way
    // `Task::cut_tier_segments` does.
    let stride = (keys / dirty_per_barrier).max(1);
    let mut shipped_total = 0u64;
    let mut shipped_max = 0u64;
    let mut sync_ns_total = 0f64;
    for b in 1..=barriers {
        let mut written = 0u64;
        let mut key = b % stride;
        while written < dirty_per_barrier {
            store.set_value(0, key % keys, row_for(key % keys, b));
            key += stride;
            written += 1;
        }
        let t0 = Instant::now();
        store.tier_sync_dirty();
        let sealed = store.take_sealed_segments();
        let live = store.live_segments();
        let mut w = ByteWriter::new();
        w.put_varint(store.resident_dirty_entry_count());
        store.write_resident_dirty_entries(&mut w);
        let image = w.freeze();
        sync_ns_total += t0.elapsed().as_nanos() as f64;
        let shipped = sealed.iter().map(|(_, p)| p.len() as u64).sum::<u64>()
            + image.len() as u64
            + 8 * live.len() as u64;
        shipped_total += shipped;
        shipped_max = shipped_max.max(shipped);
        snapshots.put_segments(b, 0, live, sealed);
        snapshots.put(VirtualTime(0), b, 0, image);
    }

    // Reconstruction check: re-fold the final checkpoint's shipped segments
    // and compare digests with the live store. The final resident image must
    // be the full one for a single-blob fold to be canonical.
    let mut w = ByteWriter::new();
    w.put_varint(store.resident_full_entry_count());
    store.write_resident_full_entries(&mut w);
    snapshots.put(VirtualTime(0), barriers, 0, w.freeze());
    let (folded, _) =
        snapshots.get(VirtualTime(0), barriers, 0).expect("final checkpoint reconstructs");
    let restored = StateStore::restore(&folded).expect("folded image decodes");
    assert_eq!(
        restored.digest(),
        store.digest(),
        "{keys}-key reconstruction digest diverges from the live store"
    );

    let stats = store.backend_stats();
    LedgerRow::new()
        .int("keys", "keys", keys)
        .int("budget_bytes", "budget B", budget)
        .int("resident_bytes", "resident B", stats.resident_bytes)
        .num("load_seconds", "load s", load_s, 2)
        .num("mean_shipped_bytes", "mean ship B", shipped_total as f64 / barriers as f64, 0)
        .int("max_shipped_bytes", "max ship B", shipped_max)
        .num("mean_sync_us", "sync us", sync_ns_total / barriers as f64 / 1_000.0, 1)
        .int("segments_live", "segs", stats.segments_live)
        .int("segment_bytes", "seg B", stats.segment_bytes)
        .int("faults", "faults", stats.faults)
        .int("evictions", "evicts", stats.evictions)
        .cell("verified", "verified", Value::Bool(true))
}

fn main() {
    let (scales, dirty, barriers, ceiling): (&[u64], u64, u64, f64) = if smoke() {
        (&[10_000, 100_000], 1_000, 12, 2.5)
    } else {
        (&[100_000, 10_000_000], 10_000, 32, 2.0)
    };
    let rows: Vec<LedgerRow> =
        scales.iter().map(|&keys| measure(keys, dirty, barriers)).collect();
    let (small, large) = (scales[0], scales[scales.len() - 1]);
    let ratio = rows[rows.len() - 1].get("mean_shipped_bytes")
        / rows[0].get("mean_shipped_bytes").max(1.0);
    Ledger::new(
        "state",
        "state",
        "Tiered state backend: shipped bytes per barrier (fixed dirty set)",
        rows,
    )
    .field("barriers", Value::Int(barriers))
    .field("dirty_per_barrier", Value::Int(dirty))
    .field("shipped_ratio_large_vs_small", Value::Num(ratio, 3))
    .field("shipped_ratio_ceiling", Value::Num(ceiling, 2))
    .line(format!(
        "shipped-bytes ratio {large} vs {small} keys at {dirty} dirty/barrier: {ratio:.2}x \
         (ceiling {ceiling:.2}x)"
    ))
    .gate(
        ratio <= ceiling,
        format!(
            "O(dirty) regression: {}x total state costs {ratio:.2}x shipped bytes per barrier \
             (ceiling {ceiling:.2}x)",
            large / small
        ),
    )
    .finish();
}
