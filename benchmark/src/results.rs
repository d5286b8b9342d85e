//! Result files: what a `run --out FILE` leaves behind, and reading it back.
//! A file holds the environment it was first written in and one entry per
//! workload run; running again with the same `--out` appends, so a file can
//! hold a whole set of runs (ten seeds, say) for `compare` to take medians
//! and quartiles over.

use std::path::Path;

use crate::env;
use crate::json::{self, Value};
use crate::runner::WorkloadResult;

/// The environment block of a new result file.
fn environment() -> Value {
    Value::obj()
        .with("nproc", (env::nproc() as u64).into())
        .with("load_avg_1m", env::load_average().unwrap_or(0.0).into())
        .with("rustc", Value::Str(env::rustc_version()))
        .with("commit", Value::Str(env::git_commit()))
}

/// Appends `results` and a record of this command to the file at `path`,
/// creating it (and its directory) if needed.
///
/// # Errors
///
/// I/O errors, or an existing file that is not a result file.
pub fn append(
    path: &Path,
    results: &[WorkloadResult],
    seconds: f64,
    command_wall_s: f64,
) -> Result<(), String> {
    let mut file = match std::fs::read_to_string(path) {
        Ok(text) => json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?,
        Err(_) => Value::obj()
            .with("env", environment())
            .with("commands", Value::Arr(Vec::new()))
            .with("runs", Value::Arr(Vec::new())),
    };
    let (Some(Value::Arr(_)), Some(Value::Arr(_))) = (file.get("commands"), file.get("runs"))
    else {
        return Err(format!("{}: not a result file", path.display()));
    };
    if let Some(Value::Arr(commands)) = file.get_mut("commands") {
        commands.push(
            Value::obj()
                .with("seconds", seconds.into())
                .with("workloads", (results.len() as u64).into())
                .with("wall_s", command_wall_s.into()),
        );
    }
    if let Some(Value::Arr(runs)) = file.get_mut("runs") {
        runs.extend(results.iter().map(WorkloadResult::to_json));
    }
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, file.to_json_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// One gated run read back from a result file.
#[derive(Debug, Clone)]
pub struct StoredRun {
    /// Workload name.
    pub workload: String,
    /// `(metric, value)` pairs.
    pub metrics: Vec<(String, f64)>,
}

/// The gated (untraced) runs of the result file at `path`.
///
/// # Errors
///
/// I/O errors or a file that is not a result file.
pub fn read_gated_runs(path: &Path) -> Result<Vec<StoredRun>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let runs = file
        .get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{}: no runs", path.display()))?;
    let mut out = Vec::new();
    for run in runs {
        if run.get("traced") == Some(&Value::Bool(true)) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| format!("{}: run without a workload", path.display()))?;
        let metrics = run
            .get("metrics")
            .and_then(Value::as_obj)
            .ok_or_else(|| format!("{}: run without metrics", path.display()))?
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect();
        out.push(StoredRun {
            workload: workload.to_owned(),
            metrics,
        });
    }
    Ok(out)
}
