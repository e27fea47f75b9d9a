//! Shared harness utilities for the paper-figure regeneration binary.

use std::time::Duration;

use fusion_engine::{QueryResult, Session};
use fusion_tpcds::{generate_catalog, BenchQuery, TpcdsConfig};

/// A baseline/fused session pair over identical (deterministic) data.
pub struct Harness {
    pub fused: Session,
    pub baseline: Session,
    pub config: TpcdsConfig,
}

impl Harness {
    /// Build one session over freshly generated (deterministic) data,
    /// applying `configure` before use.
    pub fn session(scale: f64, configure: impl FnOnce(&mut Session)) -> Session {
        let config = TpcdsConfig::with_scale(scale);
        let mut s = Session::new();
        for t in generate_catalog(&config).into_tables() {
            s.register_table(t);
        }
        configure(&mut s);
        s
    }

    pub fn new(scale: f64) -> Self {
        let config = TpcdsConfig::with_scale(scale);
        let mut fused = Session::new();
        for t in generate_catalog(&config).into_tables() {
            fused.register_table(t);
        }
        let mut baseline = Session::baseline();
        for t in generate_catalog(&config).into_tables() {
            baseline.register_table(t);
        }
        Harness {
            fused,
            baseline,
            config,
        }
    }

    /// Run a query on both sessions `runs` times, keeping the median
    /// latency, and verify result equivalence once.
    pub fn measure(&self, q: &BenchQuery, runs: usize) -> Measurement {
        let rb = self.baseline.sql(&q.sql).expect("baseline run");
        let rf = self.fused.sql(&q.sql).expect("fused run");
        assert_eq!(
            rf.sorted_rows(),
            rb.sorted_rows(),
            "{}: fused and baseline results must match",
            q.id
        );
        let base_latency = median_latency(&self.baseline, q, runs, rb.latency);
        let fused_latency = median_latency(&self.fused, q, runs, rf.latency);
        Measurement {
            id: q.id,
            applicable: q.applicable,
            plan_changed: rf.report.fusion_applied,
            base_latency,
            fused_latency,
            base_bytes: rb.metrics.bytes_scanned,
            fused_bytes: rf.metrics.bytes_scanned,
            base_peak_state: rb.metrics.peak_state_bytes,
            fused_peak_state: rf.metrics.peak_state_bytes,
            base_result: rb,
            fused_result: rf,
        }
    }
}

fn median_latency(
    session: &Session,
    q: &BenchQuery,
    runs: usize,
    first: Duration,
) -> Duration {
    let mut samples = vec![first];
    for _ in 1..runs.max(1) {
        samples.push(session.sql(&q.sql).expect("rerun").latency);
    }
    samples.sort();
    samples[samples.len() / 2]
}

/// One query's baseline-vs-fused measurement.
pub struct Measurement {
    pub id: &'static str,
    pub applicable: bool,
    pub plan_changed: bool,
    pub base_latency: Duration,
    pub fused_latency: Duration,
    pub base_bytes: u64,
    pub fused_bytes: u64,
    pub base_peak_state: u64,
    pub fused_peak_state: u64,
    pub base_result: QueryResult,
    pub fused_result: QueryResult,
}

impl Measurement {
    /// Latency improvement as the paper plots it: `baseline / fused`.
    pub fn speedup(&self) -> f64 {
        self.base_latency.as_secs_f64() / self.fused_latency.as_secs_f64().max(1e-9)
    }

    /// Fraction of baseline data read (Figure 2's y-axis).
    pub fn bytes_fraction(&self) -> f64 {
        self.fused_bytes as f64 / (self.base_bytes as f64).max(1.0)
    }
}
