//! Host facts recorded with every output, and the process's peak memory.

use crate::layers::Json;

fn read_trimmed(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Size of cpu0's highest-level cache as sysfs prints it (`"266240K"`).
fn last_level_cache() -> Option<String> {
    (0..8)
        .filter_map(|i| {
            let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
            let level: u32 = read_trimmed(&format!("{dir}/level"))?.parse().ok()?;
            Some((level, read_trimmed(&format!("{dir}/size"))?))
        })
        .max_by_key(|(level, _)| *level)
        .map(|(_, size)| size)
}

/// `VmHWM` of this process in MB: the most memory it ever held resident.
pub fn peak_rss_mb() -> f64 {
    read_trimmed("/proc/self/status")
        .and_then(|status| {
            let line = status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))?
                .to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Pool-vs-sequential pairs mean nothing on fewer than four cores.
pub fn parallel_verdict() -> &'static str {
    if nproc() < 4 {
        "inconclusive"
    } else {
        "measured"
    }
}

pub fn facts(working_set: &[(String, u64)]) -> Json {
    let text = |v: Option<String>| v.map_or(Json::Null, Json::Str);
    Json::obj(vec![
        ("nproc", Json::Num(nproc() as f64)),
        ("last_level_cache", text(last_level_cache())),
        (
            "governor",
            text(read_trimmed(
                "/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor",
            )),
        ),
        (
            "working_set_bytes",
            Json::Obj(
                working_set
                    .iter()
                    .map(|(g, b)| (g.clone(), Json::Num(*b as f64)))
                    .collect(),
            ),
        ),
        // Every graph fits the last-level cache: bandwidth-style figures
        // are in-cache figures.
        (
            "parallel_vs_sequential_pairs",
            Json::str(parallel_verdict()),
        ),
    ])
}
