//! The recorded reference: canonical `report-n7` shares and the output
//! fingerprint of every input variant (`reference.tsv`, written by
//! `perfbench --record-reference`).

const TABLE: &str = include_str!("../reference.tsv");

/// Fields of the first line whose first column is `key` and whose
/// second column is `variant`.
fn lookup(key: &str, variant: &str) -> Option<&'static str> {
    TABLE.lines().find_map(|line| {
        let mut cols = line.split('\t');
        (cols.next() == Some(key) && cols.next() == Some(variant))
            .then(|| cols.next())
            .flatten()
    })
}

/// Recorded fingerprint of `workload`'s output on input `variant`.
pub fn fingerprint(workload: &str, variant: u64) -> Option<u64> {
    lookup(workload, &variant.to_string()).and_then(|hex| u64::from_str_radix(hex, 16).ok())
}

/// Canonical-order shares of the `report-n7` federation under `scheme`.
pub fn report_shares(scheme: &str) -> Vec<f64> {
    lookup(&format!("report-n7.{scheme}"), "-")
        .map(|list| list.split(',').filter_map(|v| v.parse().ok()).collect())
        .unwrap_or_default()
}
