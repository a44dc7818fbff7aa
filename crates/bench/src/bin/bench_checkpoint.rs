//! **Barrier snapshot cost: full images vs O(dirty) deltas.**
//!
//! Measures `StateStore` snapshot encoding at {10^3, 10^5, 10^6} keys with
//! {1%, 10%, 100%} of keys dirtied per epoch — the checkpoint-barrier hot
//! path before and after incremental (copy-on-write) checkpoints. Reports
//! bytes per barrier and encode time per barrier for both paths, verifies
//! that base + delta reconstructs the full image byte-for-byte, and writes
//! `BENCH_checkpoint.json`. The acceptance floor for the incremental
//! checkpoint work is a ≥5x bytes-per-barrier reduction at ≤10% dirty with
//! 10^5+ keys.
//!
//! Usage: `cargo run -p clonos-bench --release --bin bench_checkpoint`
//! (`BENCH_SMOKE=1` shrinks sizes for CI smoke runs and writes
//! `target/bench-smoke/BENCH_checkpoint.json` instead.)

// Host-time measurement is this binary's purpose (clippy.toml wall-clock
// disallow list exempts measurement code explicitly).
#![allow(clippy::disallowed_methods)]

use clonos_bench::{smoke, Ledger, LedgerRow, Value};
use clonos_engine::state::StateStore;
use clonos_engine::{Datum, Row as DataRow};
use clonos_storage::deltamap;
use std::time::Instant;

/// Measured rounds per configuration (plus 1 warmup round).
const ROUNDS: usize = 8;

/// Deterministic per-key payload: two ints and a mid-sized blob-ish datum,
/// roughly the shape of the oracle job's per-key aggregation rows.
fn row_for(key: u64, epoch: u64) -> DataRow {
    DataRow::new(vec![
        Datum::Int((key.wrapping_mul(0x9E3779B97F4A7C15) ^ epoch) as i64),
        Datum::Int((key + epoch) as i64),
    ])
}

fn populated(keys: u64) -> StateStore {
    let mut store = StateStore::new();
    for k in 0..keys {
        store.set_value(0, k, row_for(k, 0));
    }
    store.clear_dirty();
    store
}

/// Dirty `n` keys spread evenly across the key space (epoch-scoped write
/// set), the untimed setup for one barrier.
fn dirty_some(store: &mut StateStore, keys: u64, n: u64, epoch: u64) {
    let stride = (keys / n).max(1);
    let mut written = 0;
    let mut k = epoch % stride; // rotate the hot set across epochs
    while written < n {
        store.set_value(0, k % keys, row_for(k % keys, epoch));
        k += stride;
        written += 1;
    }
}

fn measure(keys: u64, dirty_pct: u64) -> LedgerRow {
    let dirty_n = (keys * dirty_pct / 100).max(1);
    let mut store = populated(keys);

    // Full path: encode the whole image each barrier.
    let mut full_ns = f64::INFINITY;
    let mut full_bytes = 0u64;
    for round in 0..ROUNDS + 1 {
        dirty_some(&mut store, keys, dirty_n, round as u64 + 1);
        store.clear_dirty();
        let t0 = Instant::now();
        let snap = store.snapshot();
        let dt = t0.elapsed().as_nanos() as f64;
        full_bytes = snap.len() as u64;
        std::hint::black_box(snap);
        if round >= 1 {
            full_ns = full_ns.min(dt);
        }
    }

    // Incremental path: one base, then O(dirty) deltas per barrier. Verify
    // once per configuration that base + delta reconstructs the full image.
    let mut store = populated(keys);
    let base = store.snapshot();
    store.clear_dirty();
    let mut delta_ns = f64::INFINITY;
    let mut delta_bytes = 0u64;
    let mut verified = false;
    for round in 0..ROUNDS + 1 {
        dirty_some(&mut store, keys, dirty_n, round as u64 + 1);
        let t0 = Instant::now();
        let delta = store.snapshot_delta();
        let dt = t0.elapsed().as_nanos() as f64;
        delta_bytes = delta.len() as u64;
        if !verified {
            // Only the first delta builds directly on the base; checking one
            // link suffices — chain merging is associative over links.
            let merged = deltamap::merge_chain(&base, &[&delta]).expect("chain merges");
            let full = store.snapshot();
            assert_eq!(&merged[..], &full[..], "reconstruction diverged from full image");
            verified = true;
        }
        std::hint::black_box(delta);
        if round >= 1 {
            delta_ns = delta_ns.min(dt);
        }
    }

    LedgerRow::new()
        .int("keys", "keys", keys)
        .int("dirty_pct", "dirty %", dirty_pct)
        .int("full_bytes", "full B", full_bytes)
        .int("delta_bytes", "delta B", delta_bytes)
        .num("byte_reduction", "B ratio", full_bytes as f64 / delta_bytes.max(1) as f64, 3)
        .num("full_ns", "full ns", full_ns, 0)
        .num("delta_ns", "delta ns", delta_ns, 0)
        .num("time_reduction", "t ratio", full_ns / delta_ns.max(1.0), 3)
}

/// Minimum byte reduction over the rows with at least `min_keys` keys and
/// at most 10% dirty (infinite if there are none).
fn min_reduction(rows: &[LedgerRow], min_keys: f64) -> f64 {
    rows.iter()
        .filter(|r| r.get("keys") >= min_keys && r.get("dirty_pct") <= 10.0)
        .map(|r| r.get("byte_reduction"))
        .fold(f64::INFINITY, f64::min)
}

fn main() {
    let sizes: &[u64] = if smoke() { &[1_000, 20_000] } else { &[1_000, 100_000, 1_000_000] };
    let mut rows = Vec::new();
    for &keys in sizes {
        for pct in [1u64, 10, 100] {
            rows.push(measure(keys, pct));
        }
    }

    // Acceptance floor: >= 5x byte reduction at <= 10% dirty with 10^5+ keys.
    // A smoke run never reaches 10^5 keys; it records an explicit marker
    // there, and the reduction at its own largest size.
    let floor = min_reduction(&rows, 100_000.0);
    let (acceptance, floor_line) = if floor.is_finite() {
        (
            Value::Num(floor, 3),
            format!(
                "minimum byte reduction at >=1e5 keys, <=10% dirty: {floor:.2}x \
                 (acceptance floor: 5.00x)"
            ),
        )
    } else {
        (
            Value::Str("skipped_in_smoke".into()),
            "smoke run: acceptance-floor configurations skipped".into(),
        )
    };
    let largest = *sizes.last().expect("sizes");
    let largest_reduction = min_reduction(&rows, largest as f64);
    Ledger::new(
        "checkpoint",
        "checkpoint",
        "Barrier snapshot: full image vs O(dirty) delta (per barrier)",
        rows,
    )
    .field("rounds", Value::Int(ROUNDS as u64))
    .field("min_byte_reduction_1e5_10pct", acceptance)
    .field(
        "min_byte_reduction_largest_10pct",
        Value::Obj(vec![
            ("keys", Value::Int(largest)),
            ("reduction", Value::Num(largest_reduction, 3)),
        ]),
    )
    .line(floor_line)
    .finish();
}
