// One-shot benchmark driver: aborting on a setup or I/O failure is the
// desired behavior, so the workspace unwrap/panic gate is relaxed here.
#![allow(clippy::unwrap_used, clippy::panic)]

//! Morsel-parallel scaling benchmark: the PR's bench trajectory.
//!
//! Runs scan/aggregate-heavy TPC-DS queries at 1/2/4/8 worker threads,
//! fused and baseline, and writes `BENCH_parallel.json` with median
//! latencies, speedups relative to one thread, and the parallel-operator
//! counters. At every thread count the fused and baseline rows are
//! checked bit-identical (canonical `sorted_rows`), and every
//! configuration is checked against the single-thread reference — exact
//! for all value types except float aggregates, which the partial-merge
//! re-associates and may therefore move by a few ulps.
//!
//! The harness injects a small per-partition-read storage latency
//! (default 2ms, `READ_LATENCY_MS` to change) through the fault layer —
//! the same knob the resilience tests use. That models the paper's
//! setting, where Athena scans are S3-bound and partition reads overlap:
//! morsel parallelism hides storage latency even when CPU cores are
//! scarce, which is also what makes the scaling measurable inside a
//! single-core CI container.
//!
//! A second dimension compares push-based fused pipelines against the
//! batch-at-a-time operator path (`Session::set_pipelines_enabled`) on
//! fused plans at 1 and 4 threads with *zero* injected read latency —
//! pipelining is a CPU optimization, so the storage-latency crutch is
//! removed to measure it honestly. It runs the featured queries (not
//! targets: their sorts, windows and unions still break pipelines) plus
//! the scan-heavy `pipeline_queries` set whose fused plans are chains a
//! pipeline covers end to end. Rows must be
//! bit-identical between the two paths at every thread count; results
//! land in `BENCH_pipeline.json`, and the run fails unless at least
//! three of the scan-heavy targets reach a 1.3x pipelined speedup at 4
//! threads.
//!
//! ```sh
//! cargo run -p fusion-bench --release --bin bench_parallel
//! TPCDS_SCALE=0.5 RUNS=5 cargo run -p fusion-bench --release --bin bench_parallel
//! ```

use std::fmt::Write as _;
use std::time::Duration;

use fusion_bench::Harness;
use fusion_common::Value;
use fusion_engine::{QueryResult, Session};
use fusion_exec::FaultPolicy;
use fusion_tpcds::{featured_queries, pipeline_queries, BenchQuery};

const THREADS: &[usize] = &[1, 2, 4, 8];

/// The scan/aggregate-heavy subset the acceptance criterion targets: the
/// scalar-aggregate multi-scan queries plus the big join-aggregate.
const SCALING_TARGETS: &[&str] = &["Q09", "Q28", "Q88", "Q65"];

/// The pipeline dimension's acceptance targets: queries whose fused
/// plans are scan-heavy chains a pipeline can cover end to end. The
/// join-dominated featured queries are measured too, but not gated:
/// their join probes pipeline, while their sorts, windows and unions
/// still break chains.
const PIPELINE_TARGETS: &[&str] = &["Q09", "Q28", "P01", "P02", "P03", "P04"];

fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|s| s.parse::<T>().ok())
        .unwrap_or(default)
}

struct Cell {
    threads: usize,
    fused_ms: f64,
    base_ms: f64,
    morsels: u64,
    parallel_wall_ms: f64,
    parallel_cpu_ms: f64,
    /// Per-operator execution profiles ([`Session::last_profile`]) of the
    /// last fused / baseline run at this thread count, as JSON.
    fused_profile: String,
    base_profile: String,
}

fn session(scale: f64, threads: usize, latency: Duration, fused: bool) -> Session {
    Harness::session(scale, |s| {
        s.set_parallelism(threads);
        s.set_fusion_enabled(fused);
        s.set_fault_policy(FaultPolicy::default().with_read_latency(latency));
    })
}

/// Fused session for the pipeline dimension: no injected read latency,
/// pipelines toggled per cell.
fn pipeline_session(scale: f64, threads: usize, pipelines: bool) -> Session {
    Harness::session(scale, |s| {
        s.set_parallelism(threads);
        s.set_fusion_enabled(true);
        s.set_pipelines_enabled(pipelines);
    })
}

fn median_ms(s: &Session, sql: &str, runs: usize) -> (f64, QueryResult) {
    let first = s.sql(sql).expect("bench query");
    let mut samples = vec![first.latency];
    for _ in 1..runs.max(1) {
        samples.push(s.sql(sql).expect("bench rerun").latency);
    }
    samples.sort();
    (samples[samples.len() / 2].as_secs_f64() * 1e3, first)
}

/// Exact equality for every value type except floats, which are compared
/// with a tiny relative tolerance. At a fixed thread count fused and
/// baseline accumulate in the same partition order (bit-identical,
/// asserted exactly); across thread counts the partial-aggregate merge
/// re-associates float sums, so sums over non-dyadic values may move by
/// a few ulps relative to the sequential run.
fn rows_approx_eq(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(ra, rb)| {
            ra.len() == rb.len()
                && ra.iter().zip(rb).all(|(va, vb)| match (va, vb) {
                    (Value::Float64(x), Value::Float64(y)) => {
                        let scale = x.abs().max(y.abs()).max(1.0);
                        (x - y).abs() <= 1e-9 * scale
                    }
                    _ => va == vb,
                })
        })
}

fn measure(q: &BenchQuery, scale: f64, runs: usize, latency: Duration) -> Vec<Cell> {
    let reference = session(scale, 1, latency, true)
        .sql(&q.sql)
        .expect("reference run")
        .sorted_rows();
    let mut cells = Vec::new();
    for &t in THREADS {
        let fused = session(scale, t, latency, true);
        let base = session(scale, t, latency, false);
        let (fused_ms, rf) = median_ms(&fused, &q.sql, runs);
        let (base_ms, rb) = median_ms(&base, &q.sql, runs);
        assert_eq!(
            rf.sorted_rows(),
            rb.sorted_rows(),
            "{} fused and baseline rows diverge at {t} threads",
            q.id
        );
        assert!(
            rows_approx_eq(&rf.sorted_rows(), &reference),
            "{} rows diverge from the sequential reference at {t} threads",
            q.id
        );
        let profile_json = |s: &Session| {
            s.last_profile()
                .map(|p| p.to_json())
                .unwrap_or_else(|| "null".into())
        };
        cells.push(Cell {
            threads: t,
            fused_ms,
            base_ms,
            morsels: rf.metrics.morsels_executed,
            parallel_wall_ms: rf.metrics.parallel_wall_nanos as f64 / 1e6,
            parallel_cpu_ms: rf.metrics.parallel_cpu_nanos as f64 / 1e6,
            fused_profile: profile_json(&fused),
            base_profile: profile_json(&base),
        });
    }
    cells
}

struct PipeCell {
    threads: usize,
    pipelined_ms: f64,
    batch_ms: f64,
    pipelines_compiled: u64,
    batches_elided: u64,
    rows_evaluated_vectorized: u64,
}

/// Measure the pipelines-on/off dimension for one query. Bit-identity
/// between the two paths at the same thread count is a hard assertion;
/// the multiset is additionally checked against the sequential
/// batch-path reference (float-tolerant across thread counts).
fn measure_pipeline(q: &BenchQuery, scale: f64, runs: usize) -> Vec<PipeCell> {
    const PIPELINE_THREADS: &[usize] = &[1, 4];
    let reference = pipeline_session(scale, 1, false)
        .sql(&q.sql)
        .expect("pipeline reference run")
        .sorted_rows();
    let mut cells = Vec::new();
    for &t in PIPELINE_THREADS {
        let on = pipeline_session(scale, t, true);
        let off = pipeline_session(scale, t, false);
        let (pipelined_ms, r_on) = median_ms(&on, &q.sql, runs);
        let (batch_ms, r_off) = median_ms(&off, &q.sql, runs);
        assert_eq!(
            r_on.rows, r_off.rows,
            "{} pipelined and batch rows must be bit-identical at {t} threads",
            q.id
        );
        assert!(
            rows_approx_eq(&r_on.sorted_rows(), &reference),
            "{} pipelined rows diverge from the sequential reference at {t} threads",
            q.id
        );
        cells.push(PipeCell {
            threads: t,
            pipelined_ms,
            batch_ms,
            pipelines_compiled: r_on.metrics.pipelines_compiled,
            batches_elided: r_on.metrics.batches_elided,
            rows_evaluated_vectorized: r_on.metrics.rows_evaluated_vectorized,
        });
    }
    cells
}

fn main() {
    let scale: f64 = env_or("TPCDS_SCALE", 0.2);
    let runs: usize = env_or("RUNS", 3);
    let latency_ms: u64 = env_or("READ_LATENCY_MS", 2);
    let latency = Duration::from_millis(latency_ms);
    let out_path = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "BENCH_parallel.json".into());
    let profile_path = std::env::args()
        .nth(2)
        .unwrap_or_else(|| "PROFILE_parallel.json".into());
    let pipeline_path = std::env::args()
        .nth(3)
        .unwrap_or_else(|| "BENCH_pipeline.json".into());

    eprintln!(
        "# bench_parallel: scale {scale}, {runs} runs/median, {latency_ms}ms simulated \
         partition-read latency, threads {THREADS:?}"
    );

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"scale\": {scale},").unwrap();
    writeln!(json, "  \"runs\": {runs},").unwrap();
    writeln!(json, "  \"read_latency_ms\": {latency_ms},").unwrap();
    writeln!(json, "  \"threads\": [1, 2, 4, 8],").unwrap();
    writeln!(json, "  \"queries\": [").unwrap();

    let mut pjson = String::new();
    writeln!(pjson, "{{").unwrap();
    writeln!(pjson, "  \"scale\": {scale},").unwrap();
    writeln!(pjson, "  \"queries\": [").unwrap();

    let queries = featured_queries();
    let mut failures = Vec::new();
    for (qi, q) in queries.iter().enumerate() {
        let cells = measure(q, scale, runs, latency);
        writeln!(pjson, "    {{").unwrap();
        writeln!(pjson, "      \"id\": \"{}\",", q.id).unwrap();
        writeln!(pjson, "      \"profiles\": [").unwrap();
        for (i, c) in cells.iter().enumerate() {
            writeln!(pjson, "        {{").unwrap();
            writeln!(pjson, "          \"threads\": {},", c.threads).unwrap();
            writeln!(pjson, "          \"fused\": {},", c.fused_profile).unwrap();
            writeln!(pjson, "          \"baseline\": {}", c.base_profile).unwrap();
            writeln!(
                pjson,
                "        }}{}",
                if i + 1 < cells.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(pjson, "      ]").unwrap();
        writeln!(
            pjson,
            "    }}{}",
            if qi + 1 < queries.len() { "," } else { "" }
        )
        .unwrap();
        let one = &cells[0];
        eprintln!(
            "{:<4} 1t fused {:>8.1}ms baseline {:>8.1}ms",
            q.id, one.fused_ms, one.base_ms
        );
        let (f1, b1) = (one.fused_ms, one.base_ms);
        writeln!(json, "    {{").unwrap();
        writeln!(json, "      \"id\": \"{}\",", q.id).unwrap();
        writeln!(
            json,
            "      \"scaling_target\": {},",
            SCALING_TARGETS.contains(&q.id)
        )
        .unwrap();
        writeln!(json, "      \"measurements\": [").unwrap();
        for (i, c) in cells.iter().enumerate() {
            let fused_speedup = f1 / c.fused_ms.max(1e-9);
            let base_speedup = b1 / c.base_ms.max(1e-9);
            eprintln!(
                "     {}t fused {:>8.1}ms ({:.2}x) baseline {:>8.1}ms ({:.2}x) \
                 morsels {} busy/wall {:.0}/{:.0}ms",
                c.threads,
                c.fused_ms,
                fused_speedup,
                c.base_ms,
                base_speedup,
                c.morsels,
                c.parallel_cpu_ms,
                c.parallel_wall_ms,
            );
            if c.threads == 4 && SCALING_TARGETS.contains(&q.id) && fused_speedup < 2.0 {
                failures.push(format!(
                    "{}: {:.2}x fused speedup at 4 threads (need >= 2x)",
                    q.id, fused_speedup
                ));
            }
            writeln!(json, "        {{").unwrap();
            writeln!(json, "          \"threads\": {},", c.threads).unwrap();
            writeln!(json, "          \"fused_ms\": {:.3},", c.fused_ms).unwrap();
            writeln!(json, "          \"baseline_ms\": {:.3},", c.base_ms).unwrap();
            writeln!(json, "          \"fused_speedup_vs_1t\": {fused_speedup:.3},").unwrap();
            writeln!(json, "          \"baseline_speedup_vs_1t\": {base_speedup:.3},").unwrap();
            writeln!(json, "          \"morsels_executed\": {},", c.morsels).unwrap();
            writeln!(
                json,
                "          \"parallel_busy_ms\": {:.3},",
                c.parallel_cpu_ms
            )
            .unwrap();
            writeln!(
                json,
                "          \"parallel_wall_ms\": {:.3},",
                c.parallel_wall_ms
            )
            .unwrap();
            writeln!(json, "          \"rows_match_reference\": true").unwrap();
            writeln!(
                json,
                "        }}{}",
                if i + 1 < cells.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(json, "      ]").unwrap();
        writeln!(
            json,
            "    }}{}",
            if qi + 1 < queries.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    writeln!(pjson, "  ]").unwrap();
    writeln!(pjson, "}}").unwrap();

    std::fs::write(&out_path, json).expect("write BENCH_parallel.json");
    eprintln!("# wrote {out_path}");
    std::fs::write(&profile_path, pjson).expect("write PROFILE_parallel.json");
    eprintln!("# wrote {profile_path}");

    // ---- pipelines-on/off dimension (zero read latency) ----
    eprintln!("# pipeline dimension: pipelines on vs off, fused plans, no read latency");
    let mut pipe_json = String::new();
    writeln!(pipe_json, "{{").unwrap();
    writeln!(pipe_json, "  \"scale\": {scale},").unwrap();
    writeln!(pipe_json, "  \"runs\": {runs},").unwrap();
    writeln!(pipe_json, "  \"read_latency_ms\": 0,").unwrap();
    writeln!(pipe_json, "  \"threads\": [1, 4],").unwrap();
    writeln!(pipe_json, "  \"queries\": [").unwrap();
    let mut targets_hit = 0usize;
    let pipe_queries: Vec<BenchQuery> = queries
        .iter()
        .cloned()
        .chain(pipeline_queries())
        .collect();
    for (qi, q) in pipe_queries.iter().enumerate() {
        let cells = measure_pipeline(q, scale, runs);
        writeln!(pipe_json, "    {{").unwrap();
        writeln!(pipe_json, "      \"id\": \"{}\",", q.id).unwrap();
        writeln!(
            pipe_json,
            "      \"scaling_target\": {},",
            PIPELINE_TARGETS.contains(&q.id)
        )
        .unwrap();
        writeln!(pipe_json, "      \"measurements\": [").unwrap();
        for (i, c) in cells.iter().enumerate() {
            let speedup = c.batch_ms / c.pipelined_ms.max(1e-9);
            eprintln!(
                "{:<4} {}t pipelined {:>8.1}ms batch {:>8.1}ms ({:.2}x) \
                 pipelines {} batches_elided {} rows_vectorized {}",
                q.id,
                c.threads,
                c.pipelined_ms,
                c.batch_ms,
                speedup,
                c.pipelines_compiled,
                c.batches_elided,
                c.rows_evaluated_vectorized,
            );
            if c.threads == 4 && PIPELINE_TARGETS.contains(&q.id) && speedup >= 1.3 {
                targets_hit += 1;
            }
            writeln!(pipe_json, "        {{").unwrap();
            writeln!(pipe_json, "          \"threads\": {},", c.threads).unwrap();
            writeln!(pipe_json, "          \"pipelined_ms\": {:.3},", c.pipelined_ms).unwrap();
            writeln!(pipe_json, "          \"batch_ms\": {:.3},", c.batch_ms).unwrap();
            writeln!(pipe_json, "          \"pipeline_speedup\": {speedup:.3},").unwrap();
            writeln!(
                pipe_json,
                "          \"pipelines_compiled\": {},",
                c.pipelines_compiled
            )
            .unwrap();
            writeln!(pipe_json, "          \"batches_elided\": {},", c.batches_elided).unwrap();
            writeln!(
                pipe_json,
                "          \"rows_evaluated_vectorized\": {},",
                c.rows_evaluated_vectorized
            )
            .unwrap();
            writeln!(pipe_json, "          \"rows_match_reference\": true").unwrap();
            writeln!(
                pipe_json,
                "        }}{}",
                if i + 1 < cells.len() { "," } else { "" }
            )
            .unwrap();
        }
        writeln!(pipe_json, "      ]").unwrap();
        writeln!(
            pipe_json,
            "    }}{}",
            if qi + 1 < pipe_queries.len() { "," } else { "" }
        )
        .unwrap();
    }
    writeln!(pipe_json, "  ]").unwrap();
    writeln!(pipe_json, "}}").unwrap();
    std::fs::write(&pipeline_path, pipe_json).expect("write BENCH_pipeline.json");
    eprintln!("# wrote {pipeline_path}");

    if targets_hit < 3 {
        failures.push(format!(
            "pipeline dimension: only {targets_hit} of {PIPELINE_TARGETS:?} reached \
             1.3x pipelined speedup at 4 threads (need >= 3)"
        ));
    }

    if failures.is_empty() {
        eprintln!("# scaling targets met: >= 2x fused speedup at 4 threads on {SCALING_TARGETS:?}");
        eprintln!("# pipeline targets met: >= 1.3x pipelined speedup at 4 threads on >= 3 targets");
    } else {
        eprintln!("# SCALING TARGETS MISSED:");
        for f in &failures {
            eprintln!("#   {f}");
        }
        std::process::exit(1);
    }
}
