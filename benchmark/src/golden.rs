//! `check-counters`: every exact counter of every workload, for the default
//! seed, compared with the committed golden file at zero tolerance.

use std::path::PathBuf;

use crate::json::{self, Value};
use crate::runner::WorkloadResult;

/// The seed the golden file pins.
pub const GOLDEN_SEED: u64 = 42;

/// Where the golden file lives, fixed when the benchmark is built.
pub fn golden_path() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/golden/counters-seed42.json"
    ))
}

/// The golden file's content for `results`.
pub fn render(results: &[WorkloadResult]) -> String {
    let mut workloads = Value::obj();
    for r in results {
        workloads.set(r.workload, r.counters.to_json());
    }
    Value::obj()
        .with("seed", GOLDEN_SEED.into())
        .with("workloads", workloads)
        .to_json_pretty()
}

/// Every difference between `results` and the golden text, one line each.
///
/// # Errors
///
/// A golden file that does not parse.
pub fn differences(golden: &str, results: &[WorkloadResult]) -> Result<Vec<String>, String> {
    let golden = json::parse(golden)?;
    let mut out = Vec::new();
    for r in results {
        let pinned = golden
            .get("workloads")
            .and_then(|w| w.get(r.workload))
            .and_then(Value::as_obj)
            .unwrap_or(&[]);
        for (k, v) in &r.counters.0 {
            let want = pinned
                .iter()
                .find(|(pk, _)| pk == k)
                .and_then(|(_, pv)| pv.as_f64());
            if want != Some(*v as f64) {
                out.push(format!("{} {k}: golden {want:?}, run {v}", r.workload));
            }
        }
        for (pk, pv) in pinned {
            if !r.counters.0.contains_key(pk.as_str()) {
                out.push(format!(
                    "{} {pk}: golden {:?}, run has no such counter",
                    r.workload,
                    pv.as_f64()
                ));
            }
        }
    }
    Ok(out)
}
