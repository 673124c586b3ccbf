//! Facts about the host, recorded beside every result.

use ntier_trace::json::{obj, Json};

/// CPUs this process may run on, architecture and CPU model.
pub fn facts() -> Json {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    obj([
        ("nproc", Json::from(nproc)),
        ("arch", std::env::consts::ARCH.into()),
        ("os", std::env::consts::OS.into()),
        ("cpu_model", cpu_model().into()),
    ])
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// This process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    simcore::peak_rss_bytes().map(|b| b as f64 / (1024.0 * 1024.0))
}
