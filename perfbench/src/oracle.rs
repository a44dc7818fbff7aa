//! The correctness oracle every run applies to every job it executes.

use crate::workloads::{Input, JobSpec};
use clonos_engine::RunReport;
use std::hash::Hasher;

/// Violations found in one job's output: each duplicate ident, ident gap,
/// missing or extra input record and multiset mismatch counts once.
#[derive(Debug, Default)]
pub struct Verdict {
    pub violations: u64,
    pub notes: Vec<String>,
}

impl Verdict {
    fn flag(&mut self, n: u64, what: String) {
        if n > 0 {
            self.violations += n;
            self.notes.push(what);
        }
    }
}

/// A multiset of rows as the sorted 64-bit hashes of their canonical bytes.
/// Hashes rather than row copies keep the benchmark's own memory out of the
/// program's peak RSS; a missing and an extra row masking each other needs
/// a 64-bit collision.
pub type Multiset = Vec<u64>;

fn row_hash(canonical: &[u8]) -> u64 {
    let mut h = crate::virt::Fnv::new();
    h.write(canonical);
    h.finish()
}

/// The expected output multiset of every forwarding job (`None` for jobs
/// that transform rows).
pub fn expected(specs: &[JobSpec], input: &Input) -> Vec<Option<Multiset>> {
    specs
        .iter()
        .map(|s| s.forwards_rows.then(|| input_multiset(s, input)))
        .collect()
}

/// Every input row a forwarding job reads.
fn input_multiset(spec: &JobSpec, input: &Input) -> Multiset {
    let mut rows: Multiset = crate::workloads::stage_input(spec, input)
        .iter()
        .flat_map(|(_, _, rows)| rows.iter().map(|r| row_hash(&r.to_bytes())))
        .collect();
    rows.sort_unstable();
    rows
}

fn output_multiset(report: &RunReport) -> Multiset {
    let mut rows: Multiset = report
        .sink_output
        .iter()
        .map(|(_, _, r)| row_hash(&r.row.to_bytes()))
        .collect();
    rows.sort_unstable();
    rows
}

/// Checks exactly-once delivery and completeness:
/// - no duplicate idents and no ident gaps at the sinks;
/// - the sources ingested exactly the generated input (at least all of it,
///   under faults);
/// - for jobs whose stages forward rows unchanged, the output multiset
///   equals the input multiset (`expected_rows`).
pub fn check(spec: &JobSpec, report: &RunReport, expected_rows: Option<&[u64]>) -> Verdict {
    let mut v = Verdict::default();
    let label = &spec.label;
    if report.sink_output.is_empty() {
        v.flag(1, format!("{label}: no sink output"));
    }
    let dups = report.duplicate_idents().len() as u64;
    v.flag(dups, format!("{label}: {dups} duplicate idents"));
    if !report.sink_output.is_empty() {
        let gaps = report.ident_gaps().len() as u64;
        v.flag(gaps, format!("{label}: {gaps} ident gaps"));
    }
    // A recovered source re-reads its partition from the checkpointed
    // offset and `records_in` counts those reads again, so under faults the
    // count may only exceed the input; exactness is then the multiset check.
    let short = spec.expect_in.saturating_sub(report.records_in);
    let extra = report.records_in.saturating_sub(spec.expect_in);
    v.flag(
        short + if spec.faults.is_empty() { extra } else { 0 },
        format!(
            "{label}: records_in {} != generated input {}",
            report.records_in, spec.expect_in
        ),
    );
    if let Some(expected) = expected_rows {
        let got = output_multiset(report);
        let diff = multiset_difference(expected, &got);
        v.flag(
            diff,
            format!("{label}: output multiset differs from input in {diff} rows"),
        );
    }
    v
}

/// Size of the symmetric difference of two sorted multisets.
fn multiset_difference(a: &[u64], b: &[u64]) -> u64 {
    let (mut i, mut j, mut diff) = (0, 0, 0u64);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
            }
            std::cmp::Ordering::Less => {
                diff += 1;
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                diff += 1;
                j += 1;
            }
        }
    }
    diff + (a.len() - i) as u64 + (b.len() - j) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_difference_counts_both_sides() {
        let a = vec![1, 2, 2, 4];
        let c = vec![2, 3, 4];
        assert_eq!(multiset_difference(&a, &c), 3);
        assert_eq!(multiset_difference(&a, &a), 0);
    }
}
